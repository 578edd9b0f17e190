"""Golden CLI output: the exact stdout and stderr bytes and exit codes of
every verb on the README and test fixtures, of its usage errors, and of
each ``--help`` text at 80 columns.  Engine and front-end changes must
leave every byte of them alone.

The expected records live in ``golden_cli.json`` next to this file.
Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from freegroups.cli import main

from helpers import cli_verbs

GOLDEN = Path(__file__).with_name("golden_cli.json")

# the graph of <aab, ba> as inline JSON, to cover graph inputs
AAB_BA_JSON = (
    '{"alphabet": "ab", "vertices": 4, "base": 0, '
    '"edges": [[0, "a", 1], [0, "b", 2], [1, "a", 3], [2, "a", 0], [3, "b", 0]]}'
)
# the same graph renumbered away from canonical form, edges out of order
AAB_BA_RENUMBERED = (
    '{"alphabet": "ab", "vertices": 4, "base": 2, '
    '"edges": [[1, "b", 2], [2, "b", 3], [0, "a", 1], [3, "a", 2], [2, "a", 0]]}'
)

F2_SUBS = [
    "", "a", "b", "aa", "aab,ba", "bbAA", "aa,b,abA", "ab,Ba", "aaa,AbA",
    "aa,bab", "baaB", "aa,bb,abab,ba", AAB_BA_JSON,
]
F2_PAIRS = [
    ("ab,Ba", "aaa,AbA"), ("a", "b"), ("aa", "aaa"), ("aa", "aa"),
    ("aab,ba", "bbAA"), ("aab,ba", "aab,ba"), ("aa,b,abA", "ab,ba"),
    ("bbAA", "bbAA"), ("aa,bab", "aa,bab"), ("", "aab,ba"), (AAB_BA_JSON, "ba,aaB"),
]
F3_SUBS = ["abC,bca", "ca,bb,cAc", "aa,bb,cc,abc"]
F3_PAIRS = [("abC,bca", "ca,bb,cAc"), ("aa,bb,cc,abc", "aa,bb,cc,abc"), ("abc,Ca", "ab,cc")]
CONJUGATORS = {
    "": "ab", "aa": "bab", "aab,ba": "b", "bbAA": "ABa", "ab,Ba": "aaB",
    "aa,bab": "bA", "abC,bca": "cA", "ca,bb,cAc": "aBc",
}


def _cases() -> list[list[str]]:
    cases: list[list[str]] = []
    for alph, subs, pairs in (("ab", F2_SUBS, F2_PAIRS), ("abc", F3_SUBS, F3_PAIRS)):
        for s in subs:
            cases.append(["--alphabet", alph, "graph", "--sub", s])
            for flags in ([], ["--json"], ["--strict"]):
                cases.append(["--alphabet", alph, "malnormal", "--sub", s, *flags])
                cases.append(["--alphabet", alph, "cyclonormal", "--sub", s, *flags])
            if s in CONJUGATORS:
                word = CONJUGATORS[s]
                cases.append(["--alphabet", alph, "conjugate", "--sub", s, "--word", word])
            if s.count(",") < 3 and len(s) < 12:
                cases.append(["--alphabet", alph, "quotients", "--sub", s])
        for h, k in pairs:
            for verb in ("join", "intersect", "components", "hn-check"):
                cases.append(["--alphabet", alph, verb, "--sub", h, "--sub", k])
            cases.append(["--alphabet", alph, "hn-check", "--sub", h, "--sub", k, "--json"])
    for s in (AAB_BA_JSON, AAB_BA_RENUMBERED):
        for verb in (["basis"], ["basis", "--geodesic"], ["index", "--json"], ["dot"]):
            cases.append(["--alphabet", "ab", verb[0], "--sub", s, *verb[1:]])
        for word in ("aab", "ab"):
            cases.append(["--alphabet", "ab", "member", "--sub", s, "--word", word])
        cases.append(["--alphabet", "ab", "hall", "--sub", s, "--word", "b", "--json"])
    cases += [["--alphabet", "ab", *argv] for argv in _f2_cases()]
    cases.append(["--alphabet", "ab", "--help"])
    cases += [["--alphabet", "ab", verb, "--help"] for verb in cli_verbs()]
    return cases


# predicate calls, each run plain, with --json and with --strict
PREDICATES = [
    ["member", "--sub", "bbAA", "--word", "bbAA"], ["member", "--sub", "bbAA", "--word", "ab"],
    ["normal", "--sub", "aa,b,abA"], ["normal", "--sub", "aa"],
    ["conj-equiv", "--sub", "aa", "--sub", "baaB"], ["conj-equiv", "--sub", "aa", "--sub", "bb"],
    ["conj-into", "--sub", "baaB", "--sub", "a"], ["conj-into", "--sub", "a", "--sub", "aab,ba"],
    ["immersed", "--sub", "aa,bab"], ["immersed", "--sub", "ab,bA"],
    ["hn-check", "--sub", "ab,Ba", "--sub", "aaa,AbA"],
    ["free-factor", "--sub", "ab", "--ambient"], ["free-factor", "--sub", "aabb", "--ambient"],
    ["free-factor", "--sub", "a,bab"], ["free-factor", "--sub", "aa", "--ambient",
                                        "--plateau-budget", "1"],
    ["free-factor", "--sub", "a", "--in", "a,b"], ["free-factor", "--sub", "aa", "--in", "a"],
    ["free-factor", "--sub", "ba", "--in", AAB_BA_JSON],
    ["isolated", "--sub", "ab"], ["isolated", "--sub", "baaB"], ["isolated", "--sub", "aa"],
    ["isolated", "--sub", "abAB", "--depth", "3"],
]
# usage errors (exit 2) and a resource limit (exit 3)
FAILURES = [
    ["reduce"], ["member", "--sub", "ab"], ["conjugate", "--sub", "a"],
    ["power", "--sub", "a"], ["hall", "--sub", "a"],
    ["graph"], ["rank", "--sub", "a", "--sub", "b"], ["intersect", "--sub", "ab"],
    ["conj-equiv", "--sub", "a", "--sub", "b", "--sub", "ab"], ["reduce", "--word", "ac"],
    ["member", "--sub", "a,b", "--sub", "b", "--word", "c"], ["member", "--sub", "a!b", "--word", "c"],
    ["immersed", "--sub", AAB_BA_JSON], ["immersed", "--sub", "g.json"], ["immersed"],
    ["immersed", "--sub", "a", "--sub", "b"], ["free-factor", "--sub", "a", "--in", "a!"],
    ["ext-type", "--sub", "a", "--sub", "b"], ["power", "--sub", "aaa", "--word", ""],
    ["graph", "--sub", "missing_file.json"], ["not-a-verb"], ["closure", "--sub", "aa"],
    ["closure", "--sub", "aa", "--algebraic", "--isolated"], ["graph", "--sub", "a", "--geodesic"],
    ["isolated", "--sub", "a", "--depth", "x"], ["free-factor", "--sub", "a", "--in"],
    ["quotients", "--sub", "ababababababab"],
    # options the verb does not read, and free-factor's two tests at once
    ["graph", "--sub", "a", "--word", "c!"], ["rank", "--sub", "a", "--dot", "/nonexistent/x.dot"],
    ["components", "--sub", "a", "--sub", "b", "--json", "--strict"],
    ["free-factor", "--sub", "a", "--ambient", "--in", "b"],
]


def _f2_cases() -> list[list[str]]:
    """Every verb over ``ab`` beyond the fixture sweeps above, then the
    failures; each list starts at the verb."""
    cases = [
        ["reduce", "--word", "a bB aa"], ["reduce", "--word", "aA"],
        ["reduce", "--sub", "x!", "--word", "ab"],
        # a prefix of an option, even one only that option has, is a usage error
        ["isolated", "--sub", "ab", "--d", "3"],
    ]
    for s in ("", "aab,ba", "aa,b,abA", "bbAA", AAB_BA_JSON):
        cases += [["rank", "--sub", s], ["index", "--sub", s], ["basis", "--sub", s, "--json"],
                  ["extensions", "--sub", s]]
        for kind in ("--algebraic", "--malnormal", "--isolated"):
            cases.append(["closure", kind, "--sub", s])
    for s, word in (("aaa", "a"), ("a", "b"), ("aab,ba", "ab"), (AAB_BA_JSON, "aab")):
        for flags in ([], ["--json"]):
            cases.append(["power", "--sub", s, "--word", word, *flags])
    for s, word in (("bbAA", "ab"), ("aab,ba", "b"), (AAB_BA_JSON, "b")):
        cases.append(["hall", "--sub", s, "--word", word])
    for k, h in (("aa", "a"), ("a", "a,b"), ("ab", "a,b"), ("aa", "aa,b")):
        for flags in ([], ["--json"]):
            cases.append(["ext-type", "--sub", k, "--sub", h, *flags])
    for argv in PREDICATES:
        for flags in ([], ["--json"], ["--strict"]):
            cases.append([*argv, *flags])
    return cases + FAILURES


def _run(argv: list[str]) -> dict:
    """One ``fg`` call in process; argparse's exits are recorded too, and
    its help and usage text wrap at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_cases_cover_the_verbs():
    records = _load()
    assert [r["argv"] for r in records] == _cases()
    answered = {r["argv"][2] for r in records if r["exit"] in (0, 1) and r["argv"][-1] != "--help"}
    assert answered == set(cli_verbs())


@pytest.mark.parametrize(
    "record", _load() if GOLDEN.exists() else [], ids=lambda r: " ".join(r["argv"][2:])[:60]
)
def test_golden_cli_output(record):
    assert _run(record["argv"]) == record


if __name__ == "__main__":
    lines = (json.dumps(_run(argv)) for argv in _cases())
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
