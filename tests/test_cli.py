"""Command-line interface: verbs, formats, exit codes, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from random import Random
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.cli import main
from freegroups.graph import graph_from_json, to_dot

from helpers import cli_parsers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_fig7(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "member", "--sub", "bbAA", "--word", "ab")
    assert (code, out) == (0, "no\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "member", "--sub", "bbAA", "--word", "bbAA")
    assert (code, out) == (0, "yes\n")


def test_index_kernel(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "index", "--sub", "aa,b,abA")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "index", "--sub", "aa")
    assert out == "infinite\n"


def test_intersect_with_dot(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, out, _ = run(
        capsys, "--alphabet", "ab", "intersect",
        "--sub", "ab,Ba", "--sub", "aaa,AbA", "--dot", str(dot),
    )
    assert code == 0
    record = json.loads(out)
    assert record["vertices"] == 6 and len(record["edges"]) == 7
    text = dot.read_text()
    assert text.count("->") == 7 and "doublecircle" in text


def test_graph_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "--alphabet", "ab", "graph", "--sub", "aab,ba")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "--alphabet", "ab", "graph", "--sub", str(path))
    assert code2 == 0 and out2 == out
    # inline JSON auto-detection
    code3, out3, _ = run(capsys, "--alphabet", "ab", "graph", "--sub", out.strip())
    assert code3 == 0 and out3 == out


def test_determinism(capsys):
    args = ("--alphabet", "ab", "basis", "--sub", "aab,ba,bb", "--geodesic")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_reduce(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "reduce", "--word", "a bB aa")
    assert (code, out) == (0, "aaa\n")


def test_predicates_and_strict(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "malnormal", "--sub", "aa")
    assert code == 0 and out.startswith("no\nwitness: a")
    code, _, _ = run(capsys, "--alphabet", "ab", "malnormal", "--sub", "aa", "--strict")
    assert code == 1
    code, out, _ = run(capsys, "--alphabet", "ab", "normal", "--sub", "aa,b,abA")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "immersed", "--sub", "aa,bab")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "hn-check", "--sub", "ab,Ba", "--sub", "aaa,AbA")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "cyclonormal", "--sub", "aa,bb,abab,ba")
    assert (code, out) == (0, "no\n")


def test_conjugacy_verbs(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "conj-equiv", "--sub", "aa", "--sub", "baaB")
    assert code == 0 and out == "yes\nconjugator: b\n"
    code, out, _ = run(capsys, "--alphabet", "ab", "conj-into", "--sub", "baaB", "--sub", "a")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "--alphabet", "ab", "power", "--sub", "aaa", "--word", "a")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "power", "--sub", "a", "--word", "b")
    assert (code, out) == (0, "none\n")


def test_hall_and_join(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "hall", "--sub", "bbAA", "--word", "ab", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["index"] == 5
    assert record["basis_h"] == ["bbAA"]
    assert len(record["basis_c"]) == 5
    code, out, _ = run(capsys, "--alphabet", "ab", "join", "--sub", "a", "--sub", "b")
    assert json.loads(out)["vertices"] == 1


def test_hall_writes_the_completion_as_dot(capsys, tmp_path):
    dot = tmp_path / "hall.dot"
    code, out, _ = run(
        capsys, "--alphabet", "ab", "hall", "--sub", "bbAA", "--word", "ab", "--json",
        "--dot", str(dot),
    )
    assert code == 0
    graph = json.loads(out)["graph"]
    assert dot.read_text() == to_dot(graph_from_json(json.dumps(graph)))
    assert graph["vertices"] == 5  # the completion, not the input graph


def test_graph_json_over_another_alphabet_is_a_usage_error(capsys):
    record = '{"alphabet": "xy", "vertices": 1, "base": 0, "edges": [[0, "x", 0]]}'
    code, out, err = run(capsys, "--alphabet", "ab", "member", "--sub", record, "--word", "a")
    assert (code, out, err) == (2, "", "error: graph file alphabet does not match --alphabet\n")


def test_components_json(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "components", "--sub", "aa", "--sub", "aa")
    records = json.loads(out)
    assert len(records) == 2
    off = [r for r in records if not r["contains_base_pair"]]
    assert off[0]["rank"] == 1 and off[0]["double_coset_witness"] == "a"


def test_components_prints_counts_without_building_component_graphs(capsys, monkeypatch):
    # a malnormal 41-vertex F2 subgroup: its self-product has 509
    # components and no witness, so the only graphs wrapped are the two
    # --sub builds, and the counts are those of the built components
    import freegroups.graph as fgraph
    from freegroups.intersect import component_analysis
    from freegroups.subgroup import stallings_graph
    from freegroups.words import Alphabet, parse_word

    spec = "BBabbbAAbAbAbaa,babbABBaaaBaBAb,aBaababbabAbaBA"
    trusted = fgraph.XDigraph._trusted
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args[1])
        return trusted(*args, **kwargs)

    monkeypatch.setattr(fgraph.XDigraph, "_trusted", classmethod(counted))
    code, out, _ = run(capsys, "--alphabet", "ab", "components", "--sub", spec, "--sub", spec)
    assert code == 0 and calls == [41, 41]
    ab = Alphabet.from_string("ab")
    h = stallings_graph(ab, [parse_word(w, ab) for w in spec.split(",")])
    reports = component_analysis(h, h)
    counts = [(r.vertex_count, r.component.vertex_count, len(r.component.edges)) for r in reports]
    assert [(r["vertices"], r["edges"]) for r in json.loads(out)] == [(v, e) for _, v, e in counts]
    assert all(before == v == r.vertex_count for (before, v, _), r in zip(counts, reports))
    assert len(reports) == 509


def test_extension_verbs(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "ext-type", "--sub", "aa", "--sub", "a")
    assert (code, out) == (0, "algebraic\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "extensions", "--sub", "aa")
    assert len(json.loads(out)) == 2
    code, out, _ = run(capsys, "--alphabet", "ab", "closure", "--algebraic", "--sub", "aa")
    assert json.loads(out)["vertices"] == 1
    code, out, _ = run(capsys, "--alphabet", "ab", "closure", "--isolated", "--sub", "aa")
    assert json.loads(out)["edges"] == [[0, "a", 0]]
    code, out, _ = run(capsys, "--alphabet", "a", "isolated", "--sub", "aa")
    assert code == 0 and out == "no\nwitness: a\npower: 2\n"
    # --depth is accepted and ignored: the verdict is exact either way
    code, out, _ = run(capsys, "--alphabet", "ab", "isolated", "--sub", "ab", "--depth", "3")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "isolated", "--sub", "baaB", "--depth", "1")
    assert (code, out) == (0, "no\nwitness: baB\npower: 2\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "isolated", "--sub", "abAB", "--json")
    assert (code, json.loads(out)) == (0, {"answer": True})


def test_free_factor_verbs(capsys):
    code, out, _ = run(capsys, "--alphabet", "ab", "free-factor", "--sub", "ab", "--ambient")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "free-factor", "--sub", "aa", "--in", "a")
    assert (code, out) == (0, "no\n")
    # the two tests are alternatives: asking for both is a usage error
    code, out, err = run(capsys, "--alphabet", "ab", "free-factor", "--sub", "a", "--ambient",
                         "--in", "b")
    assert (code, out) == (2, "") and "--ambient" in err and "--in" in err


def test_dot_verb(capsys, tmp_path):
    code, out, _ = run(capsys, "--alphabet", "ab", "dot", "--sub", "aa")
    assert code == 0 and out.startswith("digraph") and out.count("->") == 2
    path = tmp_path / "g.dot"
    code, out, _ = run(capsys, "--alphabet", "ab", "dot", "--sub", "aa", "--dot", str(path))
    assert code == 0 and out == "" and path.read_text().count("->") == 2


@pytest.mark.parametrize("argv", [
    ["graph", "--sub", "aab,ba"],
    ["member", "--sub", "aab,ba", "--word", "aab"],
    ["basis", "--geodesic", "--sub", "aab,ba"],
    ["conjugate", "--sub", "aab,ba", "--word", "bA"],
    ["hall", "--json", "--sub", "aab,ba", "--word", "b"],
])
def test_benchmark_command_lines(capsys, argv):
    # the command shapes of perfbench's build workload: a verb that stopped
    # taking one of these options would show there only as failed operations
    code, out, err = run(capsys, "--alphabet", "ab", *argv)
    assert (code, err) == (0, "") and out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "--alphabet", "ab", "member", "--sub", "a!b", "--word", "a")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "--alphabet", "ab", "member", "--sub", "ab")
    assert code == 2  # missing --word
    code, _, err = run(capsys, "--alphabet", "ab", "intersect", "--sub", "ab")
    assert code == 2  # needs two subgroups
    code, _, err = run(capsys, "--alphabet", "ab", "graph", "--sub", "missing_file.json")
    assert code == 2
    # graph file must pass the folded/core validation
    bad = '{"alphabet": "ab", "vertices": 2, "base": 0, "edges": [[0, "a", 1]]}'
    code, _, err = run(capsys, "--alphabet", "ab", "graph", "--sub", bad)
    assert code == 2


ROSE_A = {"alphabet": "ab", "vertices": 1, "base": 0, "edges": [[0, "a", 0]]}

MALFORMED_FIELDS = [
    ("edges", 5),
    ("edges", None),
    ("edges", [None]),
    ("edges", [[0, "a"]]),
    ("edges", [[0, "a", 0, 0]]),
    ("edges", [[0, ["a"], 0]]),
    ("edges", [[0.9, "a", 0]]),
    ("edges", [[0, "a", False]]),
    ("vertices", 1.0),
    ("vertices", True),
    ("vertices", "1"),
    ("base", 0.7),
    ("base", False),
    ("alphabet", 5),
]


@pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
def test_malformed_graph_json_exit_2(capsys, field, value):
    # a malformed record ends in a usage error: no traceback, no coercion
    record = json.dumps({**ROSE_A, field: value})
    code, _, err = run(capsys, "--alphabet", "ab", "member", "--sub", record, "--word", "a")
    assert code == 2 and err.startswith("error:")


def test_resource_limit_exit_3(capsys):
    code, _, err = run(capsys, "--alphabet", "ab", "quotients", "--sub", "ababababababab")
    assert code == 3 and "limit" in err


def test_consecutive_calls_share_no_parser_state(capsys):
    # one parser serves every call; --sub lists must not carry over
    code, out, _ = run(capsys, "--alphabet", "ab", "intersect", "--sub", "aa,b", "--sub", "a")
    assert (code, out) == (0, run(capsys, "--alphabet", "ab", "graph", "--sub", "aa")[1])
    code, out, _ = run(capsys, "--alphabet", "ab", "rank", "--sub", "ab,ba")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "--alphabet", "ab", "rank", "--sub", "b")
    assert (code, out) == (0, "1\n")


def test_argparse_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["--alphabet", "ab", "not-a-verb"])
    assert exc.value.code == 2


def test_dot_edges_match_json_fixture(capsys):
    # the folded wedge of aab, bABa, abA: DOT arcs and JSON edges agree
    import re

    _, json_out, _ = run(capsys, "--alphabet", "ab", "graph", "--sub", "aab,bABa,abA")
    record = json.loads(json_out)
    _, dot_out, _ = run(capsys, "--alphabet", "ab", "dot", "--sub", "aab,bABa,abA")
    arcs = re.findall(r"(\d+) -> (\d+) \[label=\"(\w)\"\]", dot_out)
    from_dot = sorted((int(o), lbl, int(t)) for o, t, lbl in arcs)
    from_json = sorted((o, lbl, t) for o, lbl, t in record["edges"])
    assert from_dot == from_json


def test_plateau_budget_flag_has_no_effect(capsys):
    # accepted for compatibility: the test is exact and never trips a budget
    code, out, _ = run(
        capsys, "--alphabet", "ab", "free-factor", "--sub", "ab", "--ambient",
        "--plateau-budget", "50",
    )
    assert (code, out) == (0, "yes\n")
    argv = ("--alphabet", "ab", "free-factor", "--sub", "aabb", "--ambient",
            "--plateau-budget", "1")
    assert run(capsys, *argv) == (0, "no\n", "")
    assert run(capsys, *argv, "--strict") == (1, "no\n", "")


def test_unreadable_graph_file_exit_2(capsys, tmp_path):
    folder = tmp_path / "x.json"
    folder.mkdir()
    code, _, err = run(capsys, "--alphabet", "ab", "graph", "--sub", str(folder))
    assert code == 2 and str(folder) in err


def test_non_utf8_graph_file_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(ROSE_A).replace("ab", "\u00e9b").encode("latin-1"))
    code, _, err = run(capsys, "--alphabet", "ab", "graph", "--sub", str(path))
    assert code == 2 and str(path) in err


def test_fg_graph_output_loads_in_one_pass(capsys, monkeypatch):
    # the JSON `fg graph` writes is canonical: loading it is one pass over
    # its records, which writes the step table and recognises the numbering,
    # with no second table build, no XDigraph(...) sort, no canonical walk
    # and no renumbering through _core_numbering
    import freegroups.cli as cli
    import freegroups.graph as fgraph
    import freegroups.subgroup as fsub
    from freegroups.words import Alphabet

    code, text, _ = run(capsys, "--alphabet", "ab", "graph", "--sub", "aabAB,bbaBA,abababab")
    assert code == 0
    calls = dict.fromkeys(["init", "numbering", "tables", "records", "edge path", "walks"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    step_table = fgraph.XDigraph._step_table

    def build_counted(g):
        calls["tables"] += g._steps is None
        return step_table(g)

    monkeypatch.setattr(fgraph.XDigraph, "__init__", counted("init", fgraph.XDigraph.__init__))
    monkeypatch.setattr(fgraph.XDigraph, "_step_table", build_counted)
    monkeypatch.setattr(fgraph, "_records_table", counted("records", fgraph._records_table))
    monkeypatch.setattr(fgraph, "_records_edges", counted("edge path", fgraph._records_edges))
    monkeypatch.setattr(fsub, "_is_canonical", counted("walks", fsub._is_canonical))
    for module in (fgraph, fsub):
        monkeypatch.setattr(module, "_core_numbering", counted("numbering", module._core_numbering))
    loaded = cli._load_subgroup(text, Alphabet.from_string("ab"))
    assert calls == {"init": 0, "numbering": 0, "tables": 0, "records": 1, "edge path": 0,
                     "walks": 0}
    assert fgraph.graph_to_json(loaded.based) + "\n" == text
    # the same graph renumbered takes the full path
    record = json.loads(text)
    record["edges"] = [[record["vertices"] - 1 - o, x, record["vertices"] - 1 - t]
                       for o, x, t in record["edges"]]
    record["base"] = record["vertices"] - 1
    assert cli._load_subgroup(json.dumps(record), loaded.alphabet) == loaded
    assert calls["numbering"] == 1


@pytest.mark.parametrize("verb, word, derived", [
    ("member", "aab", 0), ("conjugate", "ba", 0), ("basis", None, 0), ("hall", "bab", 1),
])
def test_stored_graph_edges_are_derived_only_when_read(capsys, monkeypatch, tmp_path,
                                                       verb, word, derived):
    # a stored graph is loaded into its step table alone: member, conjugate
    # and basis never derive its edge tuple, and hall derives it once
    import freegroups.graph as fgraph

    rng = Random(5)
    gens = ",".join("".join(rng.choice("ab") for _ in range(40)) for _ in range(9))
    code, text, _ = run(capsys, "--alphabet", "ab", "graph", "--sub", gens)
    assert code == 0 and json.loads(text)["vertices"] >= 300
    path = tmp_path / "g.json"
    path.write_text(text)
    argv = ["--alphabet", "ab", verb, "--sub", str(path)] + (["--word", word] if word else [])
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    calls = []

    def counted(table, width, vertex_count):
        calls.append(vertex_count)
        return table_edges(table, width, vertex_count)

    table_edges = fgraph._table_edges
    monkeypatch.setattr(fgraph, "_table_edges", counted)
    assert run(capsys, *argv)[:2] == (0, expected)
    assert calls == [json.loads(text)["vertices"]] * derived


@pytest.mark.parametrize("verb", ["graph", "dot"])
def test_dot_into_missing_directory_exit_2(capsys, tmp_path, verb):
    # the DOT file is written before any result is printed
    path = tmp_path / "missing" / "g.dot"
    code, out, err = run(capsys, "--alphabet", "ab", verb, "--sub", "aa", "--dot", str(path))
    assert (code, out) == (2, "") and str(path) in err


# -- fuzzing the exit-code contract --------------------------------------------

class Spec(NamedTuple):
    subs: int  # how many --sub a well-formed line passes
    options: tuple[str, ...]  # as the verb's parser lists them, without -h
    one_of: tuple[str, ...] = ()  # a well-formed line passes exactly one of these


PREDICATE = ("--json", "--strict")
SPECS = {
    "reduce": Spec(0, ("--word",)),
    "graph": Spec(1, ("--sub", "--dot")),
    "member": Spec(1, ("--sub", "--word", *PREDICATE)),
    "basis": Spec(1, ("--sub", "--json", "--geodesic")),
    "rank": Spec(1, ("--sub",)),
    "index": Spec(1, ("--sub", "--json")),
    "normal": Spec(1, ("--sub", *PREDICATE)),
    "conjugate": Spec(1, ("--sub", "--word", "--dot")),
    "conj-equiv": Spec(2, ("--sub", *PREDICATE)),
    "conj-into": Spec(2, ("--sub", *PREDICATE)),
    "power": Spec(1, ("--sub", "--word", "--json")),
    "hall": Spec(1, ("--sub", "--word", "--json", "--dot")),
    "join": Spec(2, ("--sub", "--dot")),
    "intersect": Spec(2, ("--sub", "--dot")),
    "components": Spec(2, ("--sub",)),
    "malnormal": Spec(1, ("--sub", *PREDICATE)),
    "cyclonormal": Spec(1, ("--sub", *PREDICATE)),
    "immersed": Spec(1, ("--sub", *PREDICATE)),
    "hn-check": Spec(2, ("--sub", *PREDICATE)),
    "free-factor": Spec(1, ("--sub", *PREDICATE, "--ambient", "--in", "--plateau-budget"),
                        ("--ambient", "--in")),
    "quotients": Spec(1, ("--sub",)),
    "ext-type": Spec(2, ("--sub", "--json")),
    "extensions": Spec(1, ("--sub",)),
    "closure": Spec(1, ("--sub", "--dot", "--algebraic", "--malnormal", "--isolated"),
                    ("--algebraic", "--malnormal", "--isolated")),
    "isolated": Spec(1, ("--sub", *PREDICATE, "--depth")),
    "dot": Spec(1, ("--sub", "--dot")),
}
VERBS = tuple(SPECS)
ALL_OPTIONS = sorted({option for spec in SPECS.values() for option in spec.options})
GRAPH_CORPUS = [json.dumps(ROSE_A), "{", "missing.json", ""] + [
    json.dumps({**ROSE_A, field: value}) for field, value in MALFORMED_FIELDS
]
# a well-formed command line, or one with a single fault of each kind
FAULTS = (None,) * 6 + ("alphabet", "graph json", "sub count", "flag", "word", "number",
                        "dot file", "unread option", "abbreviated option")
NUMBERS = st.one_of(st.integers(0, 60).map(str), st.sampled_from(["-1", "", "x", "1.5"]))


def test_fuzz_covers_every_verb():
    # the spec above is kept by hand: a verb or option added to the parser
    # without it fails here
    parsers = cli_parsers()
    assert VERBS == tuple(parsers)
    for verb, parser in parsers.items():
        options = tuple(s for a in parser._actions for s in a.option_strings
                        if s not in ("-h", "--help"))
        assert options == SPECS[verb].options, verb


# subgroups on which the old plateau sweep exceeded --plateau-budget 1
BUDGET_TRIPPERS = ("aabb", "aaa,b")


@pytest.fixture(scope="module")
def bad_paths(tmp_path_factory) -> dict[str, list[str]]:
    """Graph files that cannot be read and a DOT path that cannot be written."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "folder.json").mkdir()
    (root / "latin1.json").write_bytes(b'{"alphabet": "\xe9b"}')
    return {"graph": [str(root / "folder.json"), str(root / "latin1.json")],
            "dot": [str(root / "missing" / "g.dot")]}


@st.composite
def cli_argv(draw, verb: str, bad_paths: dict[str, list[str]], fault: Optional[str]) -> list[str]:
    """An fg command line with random words, subgroups and budget flags:
    well formed for its verb, drawing only the options it declares, or
    with the one ``fault``.  The second subgroup of ``ext-type`` and the
    ``--in`` subgroup contain the first, as those verbs require, unless
    a fault intervenes.  Faulty graph inputs include unreadable files, a
    file fault writes ``--dot`` into a missing directory, an unread
    option is one that the verb does not declare, and an abbreviated
    option is a declared one cut short."""
    spec = SPECS[verb]
    alphabet = draw(st.sampled_from(["ab", "ab", "ab", "abc"]))
    letters = alphabet + alphabet.upper()
    subgroup = st.lists(
        st.text(alphabet=letters, min_size=1, max_size=4), min_size=1, max_size=3
    ).map(",".join)
    count = spec.subs
    if fault == "sub count":
        count = draw(st.sampled_from([n for n in range(4) if n != count]))
    subs = [draw(subgroup) for _ in range(count)]
    if verb == "ext-type" and count == 2:
        subs[1] = subs[0] + "," + subs[1]
    if verb == "free-factor" and subs and draw(st.booleans()):
        subs[0] = draw(st.sampled_from(BUDGET_TRIPPERS))
    if fault == "graph json" and subs:
        corpus = GRAPH_CORPUS + bad_paths["graph"]
        subs[draw(st.integers(0, len(subs) - 1))] = draw(st.sampled_from(corpus))
    argv = ["--alphabet", draw(st.sampled_from(["", "aB", "a1"])) if fault == "alphabet"
            else alphabet, verb]
    for text in subs:
        argv += ["--sub", text]
    if "--word" in spec.options:
        text = draw(st.text(alphabet=letters, max_size=5))
        argv += ["--word", draw(st.sampled_from([text + "!", "c" + text, text])) if fault == "word"
                 else text]
    if fault == "dot file" and "--dot" in spec.options:
        argv += ["--dot", draw(st.sampled_from(bad_paths["dot"]))]
    plain = [o for o in spec.options if o not in ("--sub", "--word", "--dot", *spec.one_of)]
    flags = list(draw(st.lists(st.sampled_from(plain), unique=True))) if plain else []
    if spec.one_of:
        flags.append(draw(st.sampled_from(spec.one_of)))
    if fault == "flag":
        flags.append(draw(st.sampled_from(("--geodesic", "--depth", "--plateau-budget",
                                           "--algebraic", "--ambient", "--in"))))
    if fault == "unread option":
        flags.append(draw(st.sampled_from([o for o in ALL_OPTIONS if o not in spec.options])))
    for flag in flags:
        argv.append(flag)
        if flag in ("--in", "--sub"):
            argv.append(",".join(subs[:1] + [draw(subgroup)]))
        elif flag in ("--depth", "--plateau-budget"):
            argv.append(draw(NUMBERS) if fault == "number" else draw(st.integers(0, 60).map(str)))
        elif flag == "--word":
            argv.append(draw(st.text(alphabet=letters, max_size=5)))
        elif flag == "--dot":
            argv.append(draw(st.sampled_from(bad_paths["dot"])))
    if fault == "abbreviated option":
        # outside the one-of groups, whose missing member argparse reports first
        at = draw(st.sampled_from([i for i, a in enumerate(argv[3:], 3)
                                   if a.startswith("--") and a not in spec.one_of]))
        argv[at] = argv[at][:draw(st.integers(3, len(argv[at]) - 1))]
    return argv


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes(verb, bad_paths, data):
    # every run ends in 0, 1, 2 or 3 with a message, never a traceback;
    # an option the verb does not read, or a prefix of one it does, is a
    # usage error
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    argv = data.draw(cli_argv(verb, bad_paths, fault), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    if fault in ("unread option", "abbreviated option"):
        assert code == 2 and "unrecognized arguments" in err.getvalue()
    if code in (2, 3):
        assert err.getvalue().strip()
    else:
        assert out.getvalue()
