"""Golden CLI output: the exact stdout bytes and exit codes of the verbs
that build graphs or walk product graphs, on the README and test
fixtures.  Engine changes must leave every byte of them alone.

The expected records live in ``golden_cli.json`` next to this file.
Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from freegroups.cli import main

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
    return cases


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_cases_cover_the_verbs():
    records = _load()
    assert [r["argv"] for r in records] == _cases()
    verbs = {r["argv"][2] for r in records}
    assert verbs == {
        "graph", "conjugate", "join", "intersect", "components", "malnormal",
        "cyclonormal", "hn-check", "quotients", "basis", "index", "dot", "member", "hall",
    }


@pytest.mark.parametrize(
    "record", _load() if GOLDEN.exists() else [], ids=lambda r: " ".join(r["argv"][2:])[:60]
)
def test_golden_cli_output(record):
    assert _run(record["argv"]) == record


if __name__ == "__main__":
    lines = (json.dumps(_run(argv)) for argv in _cases())
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
