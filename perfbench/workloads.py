"""The benchmark's three workloads: seeded op lists with their answer checks.

Every op is one call into the library's public API (or one in-process
``fg`` invocation).  Its answer is checked against something known by
construction, through the public API, after the timed call returns.

``build``  construction and membership at scale, through ``fg``.
``meet``   product graphs of subgroup pairs and self-products.
``orbit``  Whitehead minimization, extensions, closures, isolation.

Ladder ops carry ``ladder=(group, size)``; ``cost_slope`` is fitted on
them.  Ops with ``smoke=True`` form the smoke run (the smallest rung of
every ladder plus the cheap fixtures).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Optional

import freegroups as fg
from freegroups import cli as fg_cli
from freegroups import whitehead as fg_whitehead

from inputs import (
    inverse_codes,
    product_of,
    random_cyclic_word,
    random_word,
    reduce_codes,
    signed_permutation,
    spell,
    whitehead_image,
)

WORKLOAD_NAMES = ("build", "meet", "orbit")


class WrongAnswer(Exception):
    """An op returned an answer that contradicts its construction."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    canon: Callable[[Any], str] = repr  # canonical text of the answer, hashed
    ladder: Optional[tuple[str, int]] = None
    smoke: bool = False
    copies: int = 1  # runs per pass, spread over it; its latency is their median


@dataclass
class Workload:
    ops: list[Op]
    state: dict  # per-pass scratch space shared by dependent ops

    def new_pass(self) -> None:
        self.state.clear()


def warm_caches() -> None:
    """Fill the memoized Whitehead move families for every rank used."""
    for rank in (2, 3, 4):
        fg.enumerate_whitehead(fg.Alphabet("abcd"[:rank]))


def clear_caches() -> None:
    for obj in list(vars(fg_whitehead).values()):
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate inputs, build the input graphs and warm the caches.

    Builders return groups of ops; an op may read the output of an
    earlier op of its group.  The groups run in a seeded random order, so
    each population of ops (a rung, a kind) is spread over the pass and a
    slow spell of a shared machine does not land on one population.
    """
    builder = {"build": _build, "meet": _meet, "orbit": _orbit}[name]
    groups, state = builder(Random(f"{name}:{seed}"))
    warm_caches()
    groups = [[op for op in group if op.smoke or not smoke] for group in groups]
    groups = [group for group in groups if group for _ in range(group[0].copies)]
    Random(f"order:{name}:{seed}").shuffle(groups)
    return Workload([op for group in groups for op in group], state)


def _word(alphabet: fg.Alphabet, codes: list[int]) -> fg.Word:
    return fg.Word(alphabet, codes)


def _subgroup(alphabet: fg.Alphabet, words: list[list[int]]) -> fg.SubgroupGraph:
    return fg.stallings_graph(alphabet, [fg.Word(alphabet, w) for w in words])


# ---------------------------------------------------------------------------
# build: fg graph / member / basis / conjugate / hall on long generator lists

BUILD_RUNGS = (5_000, 10_000, 20_000, 40_000, 80_000)  # total generator letters
BUILD_GENERATORS = 8
# Membership queries against the stored JSON of one mid-size sparse graph,
# with words of graded length: a run of ops whose costs step evenly across
# the median, so lat_p50_ms sits inside one population, not on the edge
# between two, and moves smoothly when a shared machine slows for part of
# a run.  They read no other op's output, so the seeded order spreads them
# over the pass.
QUERY_BLOCK = (2, 10_000)  # (rank, rung)
QUERY_BLOCK_SIZE = 24
QUERY_COPIES = 3  # each is a short op; three spread-out runs steady its latency


class FgError(Exception):
    """``fg`` exited with a nonzero code."""


def run_fg(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fg_cli.main(argv)
    if code != 0:
        raise FgError(f"fg exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _build(rng: Random):
    groups: list[list[Op]] = []
    state: dict = {}

    def decode(text: str, keep: bool = True) -> fg.SubgroupGraph:
        """Graph JSON -> SubgroupGraph through the public API; ``keep``
        memoizes it until the next ``fg graph`` op."""
        if text in state:
            return state[text]
        based = fg.graph_from_json(text)
        graph = fg.SubgroupGraph(based.graph, based.base)
        if keep:
            state[text] = graph
        return graph

    for rank, letters in ((2, "ab"), (3, "abc")):
        alphabet = fg.Alphabet(letters)
        while True:  # infinite index, so Hall completions have words to avoid
            planted = [random_word(rng, rank, rng.randint(3, 6)) for _ in range(3)]
            planted_graph = _subgroup(alphabet, planted)
            if fg.index(planted_graph) is None:
                break
        planted_json = fg.graph_to_json(planted_graph.based)
        for rung, total in enumerate(BUILD_RUNGS):
            per = total // BUILD_GENERATORS
            tag = f"F{rank} {total}"
            base = ["--alphabet", letters]
            first = rung == 0
            longs = [product_of(rng, planted, per) for _ in range(BUILD_GENERATORS)]
            sparse = [random_word(rng, rank, per) for _ in range(BUILD_GENERATORS)]
            collapse_spec = ",".join(spell(w) for w in longs + planted)
            sparse_spec = ",".join(spell(w) for w in sparse)
            size = sum(len(w) for w in longs + planted)
            conj = random_word(rng, rank, 12)
            while True:
                avoid = random_word(rng, rank, 10)
                if not fg.contains(planted_graph, _word(alphabet, avoid)):
                    break
            groups.append(_graph_family_ops(
                family="collapse", tag=tag, base=base, spec=collapse_spec,
                gens=longs + planted, alphabet=alphabet, rank=rank,
                queries=[(longs[0], True), (random_word(rng, rank, per), None)],
                conj=conj, avoid=avoid, hall=True, expected=planted_json,
                ladder=(f"F{rank}", size), smoke=first, state=state, decode=decode,
            ))
            if (rank, total) == QUERY_BLOCK:
                groups += _query_block(rng, alphabet, base, sparse, tag)
            groups.append(_graph_family_ops(
                family="sparse", tag=tag, base=base, spec=sparse_spec,
                gens=sparse, alphabet=alphabet, rank=rank,
                queries=[(reduce_codes(sparse[0] + inverse_codes(sparse[1])), True)],
                conj=conj, avoid=random_word(rng, rank, 12), hall=first, expected=None,
                ladder=None, smoke=first, state=state, decode=decode,
            ))
    return groups, state


def _query_block(rng, alphabet, base, sparse, tag) -> list[list[Op]]:
    h = _subgroup(alphabet, sparse)
    text = fg.graph_to_json(h.based)
    groups = []
    for i in range(QUERY_BLOCK_SIZE):
        # a product of i + 1 generators, a member by construction, or a
        # random word of the same length
        codes = product_of(rng, sparse, (i + 1) * len(sparse[0]))
        want = True
        if i % 2 == 0:
            codes = random_word(rng, alphabet.size, len(codes))
            want = fg.contains(h, _word(alphabet, codes))
        answer = "yes" if want else "no"

        def check(out: str, answer=answer) -> None:
            expect(out.strip() == answer, f"stored sparse {tag}: wrong membership")

        groups.append([Op(
            f"fg member {'planted' if i % 2 else 'random'} stored sparse {tag}",
            lambda word=spell(codes): run_fg(base + ["member", "--sub", text, "--word", word]),
            check, str, None, False, QUERY_COPIES,
        )])
    return groups


def _graph_family_ops(
    *, family, tag, base, spec, gens, alphabet, rank, queries, conj,
    avoid, hall, expected, ladder, smoke, state, decode,
) -> list[Op]:
    """``fg graph`` on one generator list, then the verbs that read its JSON."""
    key = f"{family} {tag}"
    gen_words = [_word(alphabet, g) for g in gens]

    def sub() -> str:
        return state[key]

    def check_graph(text: str) -> None:
        state.clear()  # the previous group is done with its graphs
        state[key] = text.strip()
        if expected is not None:
            expect(state[key] == expected, f"{key}: graph differs from the planted graph")
        h = decode(state[key])
        expect(all(fg.contains(h, w) for w in gen_words), f"{key}: generator not a member")

    def member_op(codes: list[int], truth: Optional[bool]) -> Op:
        """truth=None: a random word, answered by contains() on the decoded graph."""
        def check(text: str) -> None:
            want = truth
            if want is None:
                want = fg.contains(decode(sub()), _word(alphabet, codes))
            expect(text.strip() == ("yes" if want else "no"), f"{key}: wrong membership")

        kind = "planted" if truth else "random"
        return Op(f"fg member {kind} {key}",
                  lambda: run_fg(base + ["member", "--sub", sub(), "--word", spell(codes)]),
                  check, str, None, smoke)

    def check_basis(text: str) -> None:
        h = decode(sub())
        words = [fg.parse_word(s, alphabet) for s in text.split()]
        expect(len(words) == fg.rank(h), f"{key}: basis size is not the rank")
        expect(all(fg.contains(h, w) for w in words), f"{key}: basis word not in H")
        if expected is not None:
            expect(fg.stallings_graph(alphabet, words) == h, f"{key}: basis spans another subgroup")

    def check_conjugate(text: str) -> None:
        h, c = decode(sub()), decode(text.strip(), keep=False)
        u = _word(alphabet, conj)
        expect(fg.rank(c) == fg.rank(h), f"{key}: conjugation changed the rank")
        expect(fg.contains(c, u * gen_words[0] * ~u), f"{key}: u g u^-1 not in uHu^-1")

    def check_hall(text: str) -> None:
        record = json.loads(text)
        h = decode(sub())
        big = decode(json.dumps(record["graph"]), keep=False)
        expect(record["index"] == big.vertex_count == fg.index(big), f"{key}: hall index")
        expect(not fg.contains(big, _word(alphabet, avoid)), f"{key}: hall contains g")
        expect(all(fg.contains(big, w) for w in gen_words), f"{key}: H not in L")
        expect(len(record["basis_h"]) == fg.rank(h), f"{key}: basis_h size")
        expect(
            len(record["basis_h"]) + len(record["basis_c"]) - 1
            == record["index"] * (rank - 1),
            f"{key}: Schreier formula fails",
        )

    ops = [
        Op(f"fg graph {key}", lambda: run_fg(base + ["graph", "--sub", spec]),
           check_graph, str, ladder, smoke),
        *(member_op(codes, truth) for codes, truth in queries),
        Op(f"fg basis {key}",
           lambda: run_fg(base + ["basis", "--geodesic", "--sub", sub()]),
           check_basis, str, None, smoke),
        Op(f"fg conjugate {key}",
           lambda: run_fg(base + ["conjugate", "--sub", sub(), "--word", spell(conj)]),
           check_conjugate, str, None, smoke),
    ]
    if hall:
        ops.append(Op(
            f"fg hall {key}",
            lambda: run_fg(base + ["hall", "--json", "--sub", sub(), "--word", spell(avoid)]),
            check_hall, str, None, smoke,
        ))
    return ops


# ---------------------------------------------------------------------------
# meet: intersections of pairs, component reports of self-products

# Rung counts are laid out so that the median and the 90th percentile of
# op latency fall inside runs of ops of one kind and size (100-vertex pairs
# with 25-vertex self-products; 50-vertex self-products), not on the edge
# between two populations.
PAIR_RUNGS = ((50, 4), (100, 4), (200, 4), (400, 2), (800, 1))  # (vertices, pairs)
SELF_RUNGS = (  # (vertices, graphs); every second graph contains w^2 but not w
    (12, 4), (16, 4), (20, 4), (25, 6), (32, 4), (40, 4), (50, 4),
)


def _sized(alphabet, target: int, arms: int, make_words) -> fg.SubgroupGraph:
    """Draw ``make_words(length)`` (``arms`` random words of that length plus
    fixed ones) until the graph has target vertices, +-4%, steering the
    length by the miss."""
    length = max(1, target // arms)
    while True:
        g = _subgroup(alphabet, make_words(length))
        miss = target - g.vertex_count
        if abs(miss) <= 0.04 * target + 1:
            return g
        length = max(1, length + round(miss / arms))


def _meet(rng: Random):
    alphabet = fg.Alphabet("ab")
    groups: list[list[Op]] = []
    state: dict = {}

    index = 0
    for rung, (target, count) in enumerate(PAIR_RUNGS):
        for _ in range(count):
            common = [random_word(rng, 2, 6) for _ in range(2)] if index % 2 else []
            index += 1
            h, k = (
                _sized(alphabet, target, 4, lambda n: [
                    random_word(rng, 2, n) for _ in range(4)] + common)
                for _ in range(2)
            )
            groups += [[op] for op in _pair_ops(alphabet, h, k, common, smoke=rung == 0)]

    for rung, (target, count) in enumerate(SELF_RUNGS):
        for j in range(count):
            if j % 2 == 0:
                root = None
                h = _sized(alphabet, target, 3, lambda n: [
                    random_word(rng, 2, n) for _ in range(3)])
            else:
                while True:
                    root = random_cyclic_word(rng, 2, rng.randint(3, 5))
                    h = _sized(alphabet, target, 2, lambda n: [
                        random_word(rng, 2, n) for _ in range(2)] + [root + root])
                    if not fg.contains(h, _word(alphabet, root)):
                        break
            groups.append(_self_ops(alphabet, h, root, state, len(groups), smoke=rung == 0))
    return groups, state


def _canon_graph(g: fg.SubgroupGraph) -> str:
    return fg.graph_to_json(g.based)


def _pair_ops(alphabet, h, k, common, smoke) -> list[Op]:
    label = f"V={h.vertex_count}/{k.vertex_count}"

    def check_meet(meet: fg.SubgroupGraph) -> None:
        for c in common:
            expect(fg.contains(meet, _word(alphabet, c)), f"{label}: planted generator lost")
        expect(fg.canonical_morphism(meet.based, h.based) is not None, f"{label}: meet not in H")
        expect(fg.canonical_morphism(meet.based, k.based) is not None, f"{label}: meet not in K")

    def check_hn(ok: bool) -> None:
        expect(ok is True, f"{label}: Hanna Neumann inequality reported false")

    return [
        Op(f"intersection {label}", lambda: fg.intersection(h, k), check_meet,
           _canon_graph, None, smoke),
        Op(f"hanna_neumann_check {label}", lambda: fg.hanna_neumann_check(h, k), check_hn,
           repr, None, smoke),
    ]


def _self_ops(alphabet, h, root, state, key, smoke) -> list[Op]:
    label = f"E={h.edge_count}" + (" w^2" if root else "")

    def check_components(reports) -> None:
        based = [r for r in reports if r.contains_base_pair]
        expect(len(based) == 1, f"{label}: {len(based)} components hold the base pair")

    def check_malnormal(answer) -> None:
        ok, g = answer
        state[key] = ok
        if root is not None:
            expect(not ok, f"{label}: contains w^2 but not w, yet reported malnormal")
        if not ok:
            expect(g is not None and not fg.contains(h, g), f"{label}: witness lies in H")
            meet = fg.intersection(fg.conjugate(h, g), h)
            expect(fg.rank(meet) >= 1, f"{label}: witness conjugate meets H trivially")

    def check_cyclonormal(ok: bool) -> None:
        expect(ok or not state[key], f"{label}: malnormal but not cyclonormal")

    def canon_reports(reports) -> str:
        return repr([(r.contains_base_pair, r.representative_vertex, r.rank) for r in reports])

    def canon_malnormal(answer) -> str:
        ok, g = answer
        return f"{ok} {'' if g is None else fg.format_word(g)}"

    return [
        Op(f"component_analysis {label}", lambda: fg.component_analysis(h, h),
           check_components, canon_reports, None, smoke),
        Op(f"is_malnormal {label}", lambda: fg.is_malnormal(h), check_malnormal,
           canon_malnormal, ("F2", h.edge_count), smoke),
        Op(f"is_cyclonormal {label}", lambda: fg.is_cyclonormal(h), check_cyclonormal,
           repr, None, smoke),
    ]


# ---------------------------------------------------------------------------
# orbit: free-factor decisions, closures, isolation

FREE_FACTOR_RUNGS = (  # (rank of F, target #E of K, instances)
    (2, 10, 4), (2, 20, 4), (2, 40, 4), (2, 80, 4),
    (3, 10, 2), (3, 20, 2), (3, 40, 2), (3, 80, 2),
    (4, 8, 2), (4, 12, 2), (4, 16, 2),
)
SQUARE_ROOT_LENGTHS = ((2, (2, 3, 4, 5)), (3, (2, 3, 4, 5)))  # <w^2>, |w| per rank
POWER_FIXTURES = tuple(range(2, 13))  # <a^n> -> (a, n)

# Generators of F2 subgroups with 5 to 7 vertices.  Each
# was checked to finish all three closures without the exhaustive
# isolation search, which the workload measures once, on <abAB>; random
# subgroups of this size reach it about one time in ten.
CLOSURE_POOL = (
    ("aBB", "BAbb"),
    ("aaba", "abb"),
    ("aBA", "bAba"),
    ("bAA", "aBBa"),
    ("aBaBa",),
    ("BAABa",),
    ("aaBBB",),
    ("aB", "baaa", "abb"),
    ("bbAbAB",),
    ("ABaB", "abABaB"),
    ("baaaBa",),
    ("bbaaa", "bab"),
    ("bAB", "abbbA", "AAA"),
    ("AbAA", "aBaBAA"),
    ("ABa", "bbbbAb"),
    ("bbAb", "ABA", "bAAA"),
    ("Babb", "bbAbA"),
)


def _orbit(rng: Random):
    # The subgroups are drawn once from a fixed stream; the seed relabels
    # them by a signed permutation of the letters.  Fresh random draws
    # change the cost of a free-factor decision by +-25% at equal size,
    # relabelling by about 3%, and these ops set ops_per_s and lat_p90_ms.
    family = Random("orbit family")
    groups: list[list[Op]] = []
    for rank, target, count in FREE_FACTOR_RUNGS:
        alphabet = fg.Alphabet("abcd"[:rank])
        for i in range(count):
            words = _free_factor_words(family, alphabet, rank, 1 + i % (rank - 1), target)
            relabel = signed_permutation(rng, rank)
            k = _subgroup(alphabet, [relabel(w) for w in words])
            groups.append([_free_factor_op(
                k, True, ladder=(f"F{rank}", k.edge_count), smoke=target <= 10,
            )])
    for rank, lengths in SQUARE_ROOT_LENGTHS:
        alphabet = fg.Alphabet("abcd"[:rank])
        for length in lengths:
            for _ in range(2):
                w = signed_permutation(rng, rank)(random_cyclic_word(family, rank, length))
                groups.append([_free_factor_op(
                    _subgroup(alphabet, [w + w]), False, ladder=None, smoke=length == 2,
                )])

    f2 = fg.Alphabet("ab")
    for i, gens in enumerate(CLOSURE_POOL):
        k = fg.stallings_graph(f2, [fg.parse_word(g, f2) for g in gens])
        groups += [[op] for op in _closure_ops(k, smoke=i == 0)]

    groups.append([_isolated_op(f2, "baaB", ("baB", 2), smoke=True)])
    for n in POWER_FIXTURES:
        groups.append([_isolated_op(f2, "a" * n, ("a", n), smoke=n == 2)])
    groups.append([_isolated_op(f2, "abAB", None, smoke=False)])
    return groups, {}


def _free_factor_words(rng, alphabet, rank, sub_rank, target) -> list[list[int]]:
    """Basis of a random Whitehead image of the sub-rose <x_1..x_r> whose
    graph has target <= #E <= 1.25 target.  Multipliers that would
    shorten the basis are skipped, so the words grow towards the target."""
    while True:
        words = [[2 * i] for i in range(sub_rank)]
        while True:
            image = whitehead_image(rng, rank, words)
            if sum(map(len, image)) >= sum(map(len, words)):
                words = image
            if sum(map(len, words)) >= target:
                edges = _subgroup(alphabet, words).edge_count
                if edges >= target:
                    break
        if edges <= 1.25 * target:
            return words


def _free_factor_op(k, truth, ladder, smoke) -> Op:
    label = f"F{k.alphabet.size} E={k.edge_count} {'yes' if truth else 'no'}"

    def check(answer: bool) -> None:
        expect(answer is truth, f"{label}: free-factor verdict contradicts construction")

    return Op(f"is_free_factor_of_ambient {label}", lambda: fg.is_free_factor_of_ambient(k),
              check, repr, ladder, smoke)


def _closure_ops(k, smoke) -> list[Op]:
    label = f"V={k.vertex_count} " + ",".join(fg.format_word(w) for w in fg.basis(k).elements)

    def check(closure: fg.SubgroupGraph) -> None:
        expect(fg.canonical_morphism(k.based, closure.based) is not None,
               f"{label}: closure does not contain K")

    return [  # looked up at call time, so the traced run sees the call
        Op(f"{name} {label}", lambda name=name: getattr(fg, name)(k), check, _canon_graph,
           None, smoke)
        for name in ("algebraic_closure", "malnormal_closure", "isolator")
    ]


def _isolated_op(alphabet, generator, witness, smoke) -> Op:
    h = fg.stallings_graph(alphabet, [fg.parse_word(generator, alphabet)])
    label = f"<{generator}>"

    def check(result) -> None:
        if result.witness is None:
            expect(result.isolated and witness is None, f"{label}: isolation verdict")
            return
        f, m = result.witness
        expect(not result.isolated, f"{label}: witness given for an isolated subgroup")
        expect(not fg.contains(h, f) and m >= 2 and fg.contains(h, f ** m),
               f"{label}: witness is not a root outside H")
        if witness is not None:
            expect((fg.format_word(f), m) == witness, f"{label}: expected witness {witness}")

    def canon(result) -> str:
        if result.witness is None:
            return f"{result.isolated} {result.complete}"
        return f"{fg.format_word(result.witness[0])} {result.witness[1]}"

    return Op(f"is_isolated {label}", lambda: fg.is_isolated(h), check, canon, None, smoke)
