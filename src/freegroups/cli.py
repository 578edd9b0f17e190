"""Command-line front end.

Every verb works over a fixed alphabet (``--alphabet ab``) and takes
subgroups either as comma-separated generator word lists or as graph
JSON (inline when the argument starts with ``{``, otherwise a path to
a ``.json`` file); graph inputs are validated as folded connected core
graphs on load.  Boolean verbs print ``yes``/``no`` with certificates;
``--json`` switches to machine-readable records.  Exit codes: 0
computed, 1 predicate answered "no" under ``--strict``, 2 usage error,
3 resource limit hit.

Each verb is declared once, as a ``_Verb`` in ``_VERBS``: its name and
help, how many ``--sub`` subgroups it takes, whether it needs
``--word``, the options its handler reads, and the handler.  The parser
gives each verb exactly those options, so any other is a usage error,
and ``main`` loads every verb's operands the same way (the ``--sub``
subgroups, then the ``--word``) before calling its handler.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple, Optional

from . import extensions as ext
from . import intersect as meet
from . import subgroup as sub
from .errors import FreeGroupsError, InvalidInputError, ResourceLimitError
from .graph import BasedGraph, _graph_record, _load_graph, graph_to_json, to_dot
from .subgroup import SubgroupGraph
from .whitehead import DEFAULT_PLATEAU_BUDGET, is_free_factor, is_free_factor_of_ambient
from .words import Alphabet, Word, format_word, parse_word


def _load_words(spec: str, alphabet: Alphabet) -> list[Word]:
    return [parse_word(part, alphabet) for part in spec.split(",") if part.strip()]


def _load_subgroup(spec: str, alphabet: Alphabet) -> SubgroupGraph:
    text = spec.strip()
    if text.startswith("{"):
        return _subgroup_from_json(text, alphabet)
    if text.endswith(".json"):
        try:
            with open(text, encoding="utf-8") as fh:
                return _subgroup_from_json(fh.read(), alphabet)
        except OSError as exc:
            raise InvalidInputError(f"cannot read graph file {text}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InvalidInputError(f"graph file {text} is not UTF-8 text") from None
    return sub.stallings_graph(alphabet, _load_words(text, alphabet))


def _subgroup_from_json(text: str, alphabet: Alphabet) -> SubgroupGraph:
    """Load graph JSON; the load's one record pass recognises canonical
    JSON, such as ``fg graph`` writes, which is wrapped as it is, and
    ``SubgroupGraph(...)`` checks and renumbers any other graph."""
    based, canonical = _load_graph(text)
    if based.graph.alphabet != alphabet:
        raise InvalidInputError("graph file alphabet does not match --alphabet")
    if canonical:
        return SubgroupGraph._from_canonical(based.graph)
    return SubgroupGraph(based.graph, based.base)  # validates folded/core/connected


def _emit_graph(args, g: SubgroupGraph) -> None:
    if args.dot:
        emit_dot(g.based, args.dot)
    print(graph_to_json(g.based))


def emit_dot(g: BasedGraph, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g))
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from None


def _answer(args, ok: bool, cert: Optional[dict] = None) -> int:
    """Print a predicate verdict plus certificate; exit 1 on --strict no."""
    cert = cert or {}
    if args.json:
        print(json.dumps({"answer": ok, **cert}))
    else:
        print("yes" if ok else "no")
        for key, value in cert.items():
            print(f"{key}: {value}")
    return 1 if (args.strict and not ok) else 0


def _emit_records(graphs) -> None:
    print(json.dumps([_graph_record(g.based) for g in graphs]))


# -- verb handlers: ``run(args, *operands)``, see ``_Verb`` -------------------


def _basis(args, g: SubgroupGraph) -> None:
    tree = sub.spanning_tree(g, geodesic=args.geodesic)
    words = [format_word(w) for w in sub.basis(g, tree).elements]
    print(json.dumps(words) if args.json else "\n".join(words))


def _index(args, g: SubgroupGraph) -> None:
    idx = sub.index(g)
    if args.json:
        reps = (
            [format_word(w) for w in sub.coset_representatives(g)]
            if idx is not None
            else None
        )
        print(json.dumps({"index": idx, "representatives": reps}))
    else:
        print("infinite" if idx is None else idx)


def _conjugator(args, witness: Optional[Word]) -> int:
    cert = {"conjugator": format_word(witness)} if witness is not None else {}
    return _answer(args, witness is not None, cert)


def _power(args, g: SubgroupGraph, w: Word) -> None:
    m = sub.power_in(g, w)
    if args.json:
        print(json.dumps({"power": m}))
    else:
        print("none" if m is None else m)


def _hall(args, g: SubgroupGraph, w: Word) -> None:
    result = sub.hall_completion(g, w)
    if args.dot:
        emit_dot(result.subgroup.based, args.dot)
    if args.json:
        print(json.dumps({
            "index": result.finite_index,
            "basis_h": [format_word(w) for w in result.basis_h],
            "basis_c": [format_word(w) for w in result.basis_c],
            "graph": _graph_record(result.subgroup.based),
        }))
    else:
        print(f"index: {result.finite_index}")
        print("basis_h: " + ",".join(format_word(w) for w in result.basis_h))
        print("basis_c: " + ",".join(format_word(w) for w in result.basis_c))


def _components(args, h: SubgroupGraph, k: SubgroupGraph) -> None:
    records = []
    for report in meet.component_analysis(h, k):
        records.append({
            "vertices": report.vertex_count,
            "edges": report.rank + report.vertex_count - 1,
            "contains_base_pair": report.contains_base_pair,
            "representative_vertex": list(report.representative_vertex),
            "rank": report.rank,
            "double_coset_witness": (
                format_word(report.double_coset_witness)
                if report.double_coset_witness is not None
                else None
            ),
        })
    print(json.dumps(records))


def _malnormal(args, g: SubgroupGraph) -> int:
    ok, witness = meet.is_malnormal(g)
    cert = {} if witness is None else {"witness": format_word(witness)}
    return _answer(args, ok, cert)


def _free_factor(args, k: SubgroupGraph) -> int:
    if args.inside is None:
        return _answer(args, is_free_factor_of_ambient(k))
    if args.ambient:
        raise InvalidInputError("free-factor takes --ambient or --in, not both")
    return _answer(args, is_free_factor(k, _load_subgroup(args.inside, k.alphabet)))


def _ext_type(args, k: SubgroupGraph, h: SubgroupGraph) -> None:
    verdict = ext.is_algebraic_extension(k, h)
    if args.json:
        print(json.dumps({
            "kind": verdict.kind,
            "free_factor": (
                _graph_record(verdict.free_factor.based)
                if verdict.free_factor is not None
                else None
            ),
        }))
    else:
        print(verdict.kind)
        if verdict.free_factor is not None:
            print("free_factor: " + graph_to_json(verdict.free_factor.based))


def _closure(args, k: SubgroupGraph) -> None:
    if args.algebraic:
        result = ext.algebraic_closure(k)
    elif args.malnormal:
        result = ext.malnormal_closure(k)
    else:
        result = ext.isolator(k)
    _emit_graph(args, result)


def _isolated(args, h: SubgroupGraph) -> int:
    result = ext.is_isolated(h)
    cert: dict = {}
    if result.witness is not None:
        word, m = result.witness
        cert = {"witness": format_word(word), "power": m}
    return _answer(args, result.isolated, cert)


def _dot(args, g: SubgroupGraph) -> None:
    if args.dot:
        emit_dot(g.based, args.dot)
    else:
        print(to_dot(g.based), end="")


_Flag = tuple[tuple[str, ...], dict]


def _flag(*names: str, **kwargs) -> _Flag:
    """A verb's option, as the arguments of ``add_argument``."""
    return names, kwargs


_JSON = _flag("--json", action="store_true", help="machine-readable output")
_DOT = _flag("--dot", metavar="PATH", help="also write the result graph as DOT")
_PREDICATE = (_JSON, _flag("--strict", action="store_true",
                           help="exit 1 when a predicate answers no"))


class _Verb(NamedTuple):
    """One ``fg`` verb.

    ``run(args, *operands)`` gets the ``subs`` subgroups of ``--sub``,
    then the ``--word`` when ``word`` is set; it prints the result and
    returns the exit code, or None for 0.  The verb takes ``--sub`` only
    when ``subs > 0`` and ``--word`` only when ``word`` is set; with
    ``generators`` its one ``--sub`` is a generating tuple of words, not
    a subgroup.  ``flags`` are the other options ``run`` reads, and
    exactly one of the ``one_of`` switches is required.
    """

    name: str
    help: str
    run: Callable[..., Optional[int]]
    subs: int = 1
    word: bool = False
    generators: bool = False
    flags: tuple[_Flag, ...] = ()
    one_of: tuple[str, ...] = ()


_IGNORED = "accepted for compatibility; the test is exact and ignores it"

# in parser order
_VERBS = {verb.name: verb for verb in (
    _Verb("reduce", "freely reduce a word",
          lambda args, w: print(format_word(w)), subs=0, word=True),
    _Verb("graph", "canonical subgroup graph as JSON", _emit_graph, flags=(_DOT,)),
    _Verb("member", "generalized word problem",
          lambda args, g, w: _answer(args, sub.contains(g, w)), word=True, flags=_PREDICATE),
    _Verb("basis", "free basis from a spanning tree", _basis, flags=(
        _JSON, _flag("--geodesic", action="store_true", help="use a geodesic tree"),
    )),
    _Verb("rank", "rank of the subgroup", lambda args, g: print(sub.rank(g))),
    _Verb("index", "index in the ambient free group", _index, flags=(_JSON,)),
    _Verb("normal", "normality test", lambda args, g: _answer(args, sub.is_normal(g)),
          flags=_PREDICATE),
    _Verb("conjugate", "graph of the conjugate subgroup",
          lambda args, g, w: _emit_graph(args, sub.conjugate(g, w)), word=True, flags=(_DOT,)),
    _Verb("conj-equiv", "conjugacy of two subgroups, with witness", subs=2, flags=_PREDICATE,
          run=lambda args, h, k: _conjugator(args, sub.conjugacy_equivalent(h, k))),
    _Verb("conj-into", "conjugacy into another subgroup, with witness", subs=2,
          flags=_PREDICATE, run=lambda args, k, h: _conjugator(args, sub.conjugate_into(k, h))),
    _Verb("power", "least positive power lying in the subgroup", _power, word=True,
          flags=(_JSON,)),
    _Verb("hall", "finite-index completion avoiding a word", _hall, word=True,
          flags=(_JSON, _DOT)),
    _Verb("join", "subgroup generated by two subgroups",
          lambda args, h, k: _emit_graph(args, sub.join(h, k)), subs=2, flags=(_DOT,)),
    _Verb("intersect", "intersection of two subgroups",
          lambda args, h, k: _emit_graph(args, meet.intersection(h, k)), subs=2, flags=(_DOT,)),
    _Verb("components", "component reports of the product graph", _components, subs=2),
    _Verb("malnormal", "malnormality test, with witness", _malnormal, flags=_PREDICATE),
    _Verb("cyclonormal", "cyclonormality test",
          lambda args, g: _answer(args, meet.is_cyclonormal(g)), flags=_PREDICATE),
    _Verb("immersed", "no-cancellation test for a generating tuple", generators=True,
          flags=_PREDICATE, run=lambda args, gens: _answer(args, meet.is_immersed(gens))),
    _Verb("hn-check", "intersection rank inequality probe", subs=2, flags=_PREDICATE,
          run=lambda args, h, k: _answer(args, meet.hanna_neumann_check(h, k))),
    _Verb("free-factor", "free factor test", _free_factor, flags=(
        *_PREDICATE,
        _flag("--ambient", action="store_true", help="test against the whole group"),
        _flag("--in", dest="inside", metavar="SUB", help="test inside this subgroup"),
        _flag("--plateau-budget", type=int, default=DEFAULT_PLATEAU_BUDGET, help=_IGNORED),
    )),
    _Verb("quotients", "principal quotients of the subgroup graph",
          lambda args, k: _emit_records(pq.graph for pq in ext.principal_quotients(k))),
    _Verb("ext-type", "classify an extension K <= H as algebraic or free", _ext_type, subs=2,
          flags=(_JSON,)),
    _Verb("extensions", "all algebraic extensions",
          lambda args, k: _emit_records(ext.algebraic_extensions(k))),
    _Verb("closure", "algebraic, malnormal, or isolated closure", _closure, flags=(_DOT,),
          one_of=("--algebraic", "--malnormal", "--isolated")),
    _Verb("isolated", "isolation (root-closure) test", _isolated, flags=(
        *_PREDICATE, _flag("--depth", type=int, help=_IGNORED),
    )),
    _Verb("dot", "DOT export of the subgroup graph", _dot, flags=(_DOT,)),
)}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    verb = _VERBS[args.verb]
    try:
        operands = _operands(verb, args, Alphabet.from_string(args.alphabet))
        return verb.run(args, *operands) or 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except FreeGroupsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _operands(verb: _Verb, args, alphabet: Alphabet) -> list:
    """The verb's ``--sub`` operands, then its ``--word``: when both are
    bad, the ``--sub`` error is the one reported."""
    specs = args.sub if verb.subs else []
    if verb.generators:
        if len(specs) != 1 or specs[0].strip().startswith("{") \
                or specs[0].strip().endswith(".json"):
            raise InvalidInputError(f"{verb.name} needs one --sub generating word list")
        operands: list = [_load_words(specs[0], alphabet)]
    else:
        if len(specs) != verb.subs:
            raise InvalidInputError(
                f"verb {verb.name!r} needs exactly {verb.subs} --sub argument(s)"
            )
        operands = [_load_subgroup(s, alphabet) for s in specs]
    if verb.word:
        if args.word is None:
            raise InvalidInputError(f"verb {verb.name!r} needs --word")
        operands.append(parse_word(args.word, alphabet))
    return operands


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``fg`` parser, built once per process from ``_VERBS``:
    parsing leaves it unchanged, and argparse copies the ``--sub`` list
    default before appending to it.  Options must be spelled in full: a
    prefix is a usage error, so adding an option never changes what an
    existing command line means."""
    parser = argparse.ArgumentParser(
        prog="fg",
        description="Subgroups of free groups as folded core graphs.",
        allow_abbrev=False,
    )
    parser.add_argument("--alphabet", required=True, help="generator letters, e.g. ab")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS.values():
        p = verbs.add_parser(verb.name, help=verb.help, allow_abbrev=False)
        if verb.subs:
            p.add_argument("--sub", action="append", default=[],
                           help="subgroup: comma-separated words, inline JSON, or a .json path")
        if verb.word:
            p.add_argument("--word", help="a word argument, e.g. abA")
        for names, kwargs in verb.flags:
            p.add_argument(*names, **kwargs)
        if verb.one_of:
            kind = p.add_mutually_exclusive_group(required=True)
            for name in verb.one_of:
                kind.add_argument(name, action="store_true")
    return parser


if __name__ == "__main__":
    sys.exit(main())
